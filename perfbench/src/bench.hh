/**
 * @file
 * Shared pieces of the walker-system benchmark: its clock, its
 * seeded generators, the key permutation the oracle is built on, the
 * span recorder, percentile helpers and the result printer.
 *
 * Everything here belongs to the benchmark, not to the program: the
 * program only ever sees the keys these generators produce, and every
 * expected record is derived from KeyPerm, never from the index.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace pb {

using u64 = std::uint64_t;
using u32 = std::uint32_t;

/** The benchmark's own clock (steady_clock, nanoseconds). It has the
 *  same origin as the program's deadline clock, so an absolute
 *  deadline computed here means the same instant to the service. */
inline u64
nowNs()
{
    return u64(std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::steady_clock::now().time_since_epoch())
                   .count());
}

/** Spin-loop hint. */
inline void
cpuRelax()
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#endif
}

/** splitmix64: small, seedable, and independent of the program's
 *  own generators. */
class Rng
{
  public:
    explicit Rng(u64 seed) : s_(seed * 0x9e3779b97f4a7c15ull + 1) {}

    u64
    next()
    {
        u64 z = (s_ += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }

    /** Uniform in [0, n). */
    u64 below(u64 n) { return next() % n; }

    /** Uniform in [0, 1). */
    double unit() { return double(next() >> 11) * 0x1.0p-53; }

    /** Exponential with the given mean (Poisson inter-arrivals). */
    double
    exponential(double mean)
    {
        return -std::log(1.0 - unit()) * mean;
    }

  private:
    u64 s_;
};

/**
 * The build permutation: a seeded bijection on [0, 2^bits). Row r of
 * the build column holds key(r), so a key k is present exactly when
 * slot(k) < rows, and its row id is slot(k). Keys of slots at or past
 * `rows` are guaranteed misses, and fresh keys for inserts. The map
 * is arithmetic (odd multiply then xor, both invertible mod 2^bits),
 * so the oracle needs no table and no call into the index.
 */
class KeyPerm
{
  public:
    KeyPerm(unsigned bits, u64 seed);

    u64
    key(u64 slot) const
    {
        return (((slot * mul_) & mask_) ^ xor_) + 1;
    }

    u64
    slot(u64 key) const
    {
        return (((key - 1) ^ xor_) * inv_) & mask_;
    }

    u64 space() const { return mask_ + 1; }

  private:
    u64 mask_, mul_, inv_, xor_;
};

/** Zipf(theta) ranks in [0, n) (Gray et al., "Quickly generating
 *  billion-record synthetic databases"); rank 0 is the hottest. */
class Zipf
{
  public:
    Zipf(u64 n, double theta);
    u64 draw(Rng &rng) const;

  private:
    u64 n_;
    double theta_, alpha_, zetan_, eta_;
};

/** Percentile over samples (nearest rank); sorts in place. */
double percentile(std::vector<double> &v, double p);
double median(std::vector<double> v);

/** Peak resident set of this process so far, in MiB. */
double peakRssMb();

/**
 * In-memory span recorder: one span per call into a layer, with its
 * parent span and the request it served. Nothing is written until
 * the run ends. A disabled recorder costs one branch per call site.
 */
class Spans
{
  public:
    struct Span
    {
        const char *name;
        u64 startNs, endNs;
        u32 parent; ///< index + 1 into the span list; 0 = root
        u64 request;
    };

    explicit Spans(bool on) : on_(on)
    {
        if (on_)
            spans_.reserve(1u << 20);
    }

    /** Open a span; returns its handle (0 when recording is off). */
    u32
    open(const char *name, u32 parent = 0, u64 request = 0)
    {
        if (!on_)
            return 0;
        const u64 t = nowNs();
        spans_.push_back({name, t, 0, parent, request});
        costNs_ += nowNs() - t;
        return u32(spans_.size());
    }

    void
    close(u32 h)
    {
        if (h)
            spans_[h - 1].endNs = nowNs();
    }

    /** Record a span whose ends were timed by the caller. */
    u32
    add(const char *name, u64 startNs, u64 endNs, u32 parent = 0,
        u64 request = 0)
    {
        if (!on_)
            return 0;
        const u64 t = nowNs();
        spans_.push_back({name, startNs, endNs, parent, request});
        costNs_ += nowNs() - t;
        return u32(spans_.size());
    }

    /** Time spent recording spans. Both kinds of run take the same
     *  timestamps, so this is what tracing adds to a run. */
    u64 costNs() const { return costNs_; }

    /** A span's duration minus the part its children cover. */
    std::vector<double> selfTimes(const std::string &name) const;

    /** Write every span as chrome://tracing JSON. */
    void write(const std::string &path) const;

  private:
    bool on_;
    std::vector<Span> spans_;
    u64 costNs_ = 0;
};

/** What one run reports: correctness, operation counts, metrics. */
struct Report
{
    bool correct = true;
    u64 attempted = 0;
    u64 failed = 0;
    std::map<std::string, std::pair<double, std::string>> metrics;
    std::vector<std::string> errors;

    void
    set(const std::string &name, double v, const char *unit)
    {
        metrics[name] = {v, unit};
    }

    /** Record a failed correctness check (the first few are kept). */
    void fail(const std::string &why);

    /** Print the one-line JSON result to stdout. */
    void print() const;
};

/** Command-line settings shared by every workload. */
struct Options
{
    std::string workload;
    u64 seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string traceOut;
    /** Deliberately corrupt one expected record (check self-test). */
    bool breakOracle = false;
};

} // namespace pb

#endif // PERFBENCH_BENCH_HH
