/**
 * @file
 * The benchmark's load generator and oracle checks.
 *
 * Open loop: a schedule of requests, each with a due time, is sent
 * by one generator thread regardless of how fast results come back;
 * the same thread collects completions while it waits. Latency is timed by the
 * benchmark's own clock from each request's *due* time, so a stall
 * that delays later sends is charged to them. The generator records
 * how late it sent every request.
 *
 * Closed loop: one client thread sends the next request only when
 * the previous one has completed.
 */

#ifndef PERFBENCH_GEN_HH
#define PERFBENCH_GEN_HH

#include <functional>
#include <span>
#include <string>
#include <vector>

#include "bench.hh"
#include "service/index_service.hh"

namespace pb {

using widx::sw::MatchRec;
using widx::sw::RequestKind;
using widx::sw::Status;

/** One scheduled request: keys (and payloads) are a slice of the
 *  workload's pools. */
struct Req
{
    u64 atNs = 0;         ///< due time, relative to the phase start
    RequestKind kind = RequestKind::Probe;
    u32 off = 0, len = 0; ///< slice of the key / payload pools
    u64 deadlineNs = 0;   ///< relative to the due time; 0 = none
};

/** What became of one scheduled request. */
struct Done
{
    u64 dueNs = 0;  ///< absolute due time
    u64 sentNs = 0; ///< when the generator called submit
    u64 callNs = 0; ///< duration of the submit call
    u64 doneNs = 0; ///< when the generator reaped the completion
    bool done = false;
    Status status = Status::Ok;
    u64 matches = 0;
    /** The oracle's verdict on the records (empty = as expected);
     *  the records themselves are dropped once checked. */
    std::string why;

    double latencyNs() const { return double(doneNs - dueNs); }
};

/** One phase's outcome. */
struct PhaseOut
{
    std::vector<Done> done;
    std::vector<double> lateNs; ///< generator lateness per send
    u64 missing = 0;            ///< never completed within the grace
    u64 strays = 0;             ///< completions of unknown or done tags
    double wallS = 0;           ///< first due time to last completion
};

/** Send `sched[i]` through submit(i, req, dueAbsNs); reap with `cq`
 *  (whose tags must be the schedule indexes). `closed` ignores the
 *  due times and sends each request when the previous completed. Each Ok result goes to
 *  check(i, result) as it is reaped; the verdict is kept in Done::why
 *  and the records dropped, so a phase holds no results. */
using SubmitFn = std::function<void(u64, const Req &, u64)>;
using CheckFn =
    std::function<std::string(u64, const widx::sw::ServiceResult &)>;
PhaseOut runOpenLoop(const std::vector<Req> &sched, const SubmitFn &submit,
                     widx::sw::CompletionQueue &cq, const CheckFn &check,
                     u64 graceNs, bool closed = false);

/** Latencies (ns) of the requests matching `pick`. */
std::vector<double> latencies(const PhaseOut &p,
                              const std::function<bool(u64)> &pick);

/** Did the backlog grow over the phase? True when the median latency
 *  of the last fifth of requests is more than twice that of the
 *  second fifth plus `slackNs` (a queue that drains keeps them
 *  level). */
bool backlogGrew(const PhaseOut &p, double slackNs);

/** Schedule helpers: n requests with Poisson arrivals at `rate`. */
std::vector<u64> poissonTimes(u64 n, double ratePerS, Rng &rng);

/** Allowed payloads for one key: the record may carry a or b, and
 *  kAbsent in either slot means "no record" is allowed too. */
inline constexpr u64 kAbsent = ~u64(0);
struct Allowed
{
    u64 a, b;
};

/**
 * Check one Probe/Join result against the oracle: exactly one record
 * per present key and none per absent one, each with the key it was
 * asked for and an allowed payload, in ascending key position (the
 * byte-identical-to-probeBatch contract). `allow(key)` gives the
 * allowed payloads. Returns an empty string or the first violation.
 */
template <typename Allow>
std::string
checkRecords(std::span<const u64> keys, const std::vector<MatchRec> &recs,
             u64 matches, Allow &&allow)
{
    if (matches != recs.size())
        return "match count " + std::to_string(matches) + " != " +
               std::to_string(recs.size()) + " records";
    std::size_t r = 0;
    for (std::size_t i = 0; i < keys.size(); ++i) {
        const Allowed al = allow(keys[i]);
        if (r < recs.size() && recs[r].i == i) {
            const MatchRec &m = recs[r++];
            if (m.key != keys[i])
                return "record " + std::to_string(i) + " carries key " +
                       std::to_string(m.key) + ", asked " +
                       std::to_string(keys[i]);
            if (m.payload == kAbsent ||
                (m.payload != al.a && m.payload != al.b))
                return "key " + std::to_string(keys[i]) +
                       " returned payload " + std::to_string(m.payload) +
                       ", expected " + std::to_string(al.a);
            if (r < recs.size() && recs[r].i == i)
                return "key " + std::to_string(keys[i]) +
                       " returned twice";
        } else if (al.a != kAbsent && al.b != kAbsent) {
            return "present key " + std::to_string(keys[i]) +
                   " returned no record";
        }
    }
    if (r != recs.size())
        return "records out of key order or out of range";
    return {};
}

} // namespace pb

#endif // PERFBENCH_GEN_HH
