/**
 * @file
 * The four workloads, the dataset they share, and the per-layer
 * ledger the traced run pushes their keys through.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <memory>

#include "common/arena.hh"
#include "db/column.hh"
#include "gen.hh"
#include "service/index_service.hh"

namespace pb {

/** A build relation: row r holds key perm.key(r), payload r. */
struct Dataset
{
    Dataset(unsigned bits, u64 rows, u64 buckets, u64 seed);

    KeyPerm perm;
    u64 rows;
    widx::Arena arena;
    std::unique_ptr<widx::db::Column> build;
    widx::db::IndexSpec spec;
    /** Set by --break-oracle: the oracle expects a wrong payload for
     *  this key, so a working run must fail its checks. */
    u64 brokenKey = kAbsent;

    /** The oracle for the unmodified relation. */
    Allowed
    exact(u64 key) const
    {
        const u64 s = perm.slot(key);
        if (s >= rows)
            return {kAbsent, kAbsent};
        return key == brokenKey ? Allowed{s + 1, s + 1} : Allowed{s, s};
    }

    /** --break-oracle: corrupt the expected payload of the first
     *  present key among `keys`. */
    void
    breakFirstHit(std::span<const u64> keys)
    {
        for (u64 k : keys)
            if (exact(k).a != kAbsent) {
                brokenKey = k;
                return;
            }
    }

    /** A key of a random row / a key guaranteed to miss. */
    u64 hitKey(Rng &rng) const { return perm.key(rng.below(rows)); }
    u64
    missKey(Rng &rng) const
    {
        return perm.key(rows + rng.below(perm.space() - rows));
    }
};

/** Service shape shared by the workloads. */
struct ServiceShape
{
    unsigned walkers = 2;
    bool adaptive = false;
    bool mutation = false;
};

std::unique_ptr<widx::sw::IndexService>
makeService(const Dataset &d, const ServiceShape &shape);

/** Build the service `reps` times (the median build time is
 *  `setup_s`) and keep the last one. */
std::unique_ptr<widx::sw::IndexService>
setUp(const Dataset &d, const ServiceShape &shape, int reps,
      Report &rep);

/** Walker threads the host allows the benchmark: nproc, at least 1. */
unsigned hostThreads();

/**
 * The per-layer ledger: the same keys through the flat kernels
 * (probeBatch, AMAC, coroutines), the 4-shard drain on one thread, a
 * one-walker service, the workload's full service and db::probeAll,
 * each checked against the oracle. Reports keys/s per layer and the
 * ratio between adjacent layers, so host speed cancels.
 */
void runLedger(const Dataset &d, std::span<const u64> keys,
               widx::sw::IndexService &full, std::size_t requestKeys,
               Spans &spans, Report &rep);

/** Service counters over one phase, as per-layer metrics. */
void reportServiceLayer(const widx::sw::ServiceStats &before,
                        const widx::sw::ServiceStats &after,
                        RequestKind kind, Report &rep);

/** p50 / p99 (microseconds) of a latency sample. */
struct Tail
{
    double p50 = 0, p99 = 0;
    std::size_t n = 0;
};
Tail tailOf(std::vector<double> ns);

/** How honest the open-loop generator was over these phases: the
 *  p99 of how late it sent (gen.late_p99_us) and how many phases
 *  ended with a growing backlog (gen.backlog_phases). */
void reportGenerator(std::initializer_list<const PhaseOut *> phases,
                     Report &rep);

void runJoinProbe(const Options &o, Report &rep);
void runPointLookup(const Options &o, Report &rep);
void runMixedRw(const Options &o, Report &rep);
void runBurst(const Options &o, Report &rep);

} // namespace pb

#endif // PERFBENCH_WORKLOADS_HH
