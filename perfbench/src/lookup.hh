/**
 * @file
 * Pieces shared by the three open-loop workloads (point-lookup,
 * mixed-rw, burst): the small index, the Zipf request pool, the
 * in-process and TCP submit paths, and the per-phase oracle check.
 */

#ifndef PERFBENCH_LOOKUP_HH
#define PERFBENCH_LOOKUP_HH

#include "net/client.hh"
#include "workloads.hh"

namespace pb {

/** The point-lookup index: 1M rows in 1M buckets (a 32 MiB bucket
 *  array, resident in a 105 MiB L3). */
inline constexpr unsigned kSmallBits = 22;
inline constexpr u64 kSmallRows = u64(1) << 20;
inline constexpr std::size_t kReadKeys = 32;
inline constexpr unsigned kReadMissPct = 5;
inline constexpr double kZipfTheta = 0.99;
/** Walkers for the open-loop workloads: the spinning generator and,
 *  over TCP, the front-end's own threads need the other cores. */
inline unsigned
lookupWalkers()
{
    return std::max(1u, std::min(2u, hostThreads()));
}

/** Keys (and payloads for writes) that scheduled requests slice.
 *  The first `reads` keys are the read pool: Zipf-ranked rows (rank r
 *  is row r, and the key permutation scatters hot rows over the key
 *  space) with kReadMissPct percent misses; a read request is a
 *  random 32-key slice of it. Write keys are appended after it. */
struct Pool
{
    static constexpr std::size_t kReadPool = std::size_t(1) << 20;

    Pool(const Dataset &d, const Zipf &z, Rng &rng);

    std::vector<u64> keys, pays;
    std::size_t reads = 0;

    u32
    readSlice(Rng &rng) const
    {
        return u32(rng.below(reads - kReadKeys + 1));
    }

    std::span<const u64> readKeys() const { return {keys.data(), reads}; }
};

/** Submit through IndexService::submitAsync onto `cq`. The deadline
 *  is anchored at the request's due time. */
SubmitFn localSubmit(widx::sw::IndexService &svc, const Pool &pool,
                     widx::sw::CompletionQueue &cq);

/** Submit through one TCP connection (relative deadline). */
SubmitFn wireSubmit(widx::net::TcpIndexClient &client, const Pool &pool);

/** Outcome counts of one phase: every scheduled request lands in
 *  exactly one bucket. */
struct Tally
{
    u64 ok = 0, okLate = 0, rejected = 0, expired = 0, cancelled = 0,
        other = 0, missing = 0;

    u64
    total() const
    {
        return ok + okLate + rejected + expired + cancelled + other +
               missing;
    }
};

/** How long a phase waits for completions after its last send. */
inline constexpr u64 kGraceNs = 5'000'000'000ull;

/** The oracle check run as each completion is reaped: each Ok Probe result
 *  against `allow`, each Ok write for the number of keys it
 *  applied. */
template <typename Allow>
CheckFn
recordCheck(const std::vector<Req> &sched, const Pool &pool, Allow &allow)
{
    return [&sched, &pool, &allow](u64 i, const widx::sw::ServiceResult &r) {
        const Req &q = sched[i];
        if (q.kind != RequestKind::Probe)
            return r.matches == q.len
                       ? std::string()
                       : "write applied " + std::to_string(r.matches) +
                             " of " + std::to_string(q.len) + " keys";
        return checkRecords(
            std::span<const u64>(pool.keys.data() + q.off, q.len), r.recs,
            r.matches, allow);
    };
}

/**
 * Account for a phase that ran: every scheduled request must have
 * completed exactly once and lands in one Tally bucket; every Ok
 * result must have passed the oracle. Non-Ok outcomes fail the check
 * unless `mayShed` (a deadline workload). Ok results that completed
 * past their deadline count as okLate.
 */
inline Tally
accountPhase(const std::vector<Req> &sched, const PhaseOut &p, bool mayShed,
             Report &rep, const std::string &phase)
{
    Tally t;
    for (std::size_t i = 0; i < sched.size(); ++i) {
        const Req &r = sched[i];
        const Done &d = p.done[i];
        if (!d.done) {
            ++t.missing;
            continue;
        }
        switch (d.status) {
          case Status::Ok:
            if (r.deadlineNs && d.doneNs > d.dueNs + r.deadlineNs)
                ++t.okLate;
            else
                ++t.ok;
            break;
          case Status::Rejected: ++t.rejected; break;
          case Status::DeadlineExceeded: ++t.expired; break;
          case Status::Cancelled: ++t.cancelled; break;
          default: ++t.other; break;
        }
        if (d.status != Status::Ok && !mayShed)
            rep.fail(phase + ": request " + std::to_string(i) +
                     " completed " + widx::sw::statusName(d.status));
        if (!d.why.empty())
            rep.fail(phase + ": request " + std::to_string(i) + ": " + d.why);
    }
    if (t.missing || t.other || p.strays || t.total() != sched.size())
        rep.fail(phase + ": " + std::to_string(sched.size()) +
                 " scheduled, " + std::to_string(t.total()) +
                 " accounted, " + std::to_string(t.missing) +
                 " never completed, " + std::to_string(p.strays) +
                 " stray completions");
    rep.attempted += sched.size();
    return t;
}

/** Run one phase with the oracle check, then account for it
 *  (`closed` is runOpenLoop's). */
template <typename Allow>
Tally
runPhase(const std::vector<Req> &sched, const SubmitFn &submit,
         widx::sw::CompletionQueue &cq, const Pool &pool, bool mayShed,
         Allow &allow, Report &rep, const std::string &phase, PhaseOut &p,
         bool closed = false)
{
    p = runOpenLoop(sched, submit, cq, recordCheck(sched, pool, allow),
                    kGraceNs, closed);
    return accountPhase(sched, p, mayShed, rep, phase);
}

/** Record each request of a phase as a span (due time to completion)
 *  with its submit call as the child span. */
void addSpans(Spans &spans, const PhaseOut &p, const char *call);

/** Read requests of `n` Poisson arrivals at `rate`. */
std::vector<Req> readSchedule(const Pool &pool, u64 n, double rate, Rng &rng);

} // namespace pb

#endif // PERFBENCH_LOOKUP_HH
