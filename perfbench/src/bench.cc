#include "bench.hh"

#include <sys/resource.h>

namespace pb {

KeyPerm::KeyPerm(unsigned bits, u64 seed)
{
    mask_ = (u64(1) << bits) - 1;
    Rng rng(seed ^ 0x6b65797065726dull);
    mul_ = (rng.next() | 1) & mask_;
    // Inverse of an odd number mod 2^64 by Newton's iteration; the
    // low `bits` bits are the inverse mod 2^bits.
    u64 inv = mul_;
    for (int i = 0; i < 6; ++i)
        inv *= 2 - mul_ * inv;
    inv_ = inv & mask_;
    xor_ = rng.next() & mask_;
}

Zipf::Zipf(u64 n, double theta) : n_(n), theta_(theta)
{
    double zeta2 = 0;
    zetan_ = 0;
    for (u64 i = 1; i <= n; ++i) {
        zetan_ += 1.0 / std::pow(double(i), theta);
        if (i == 2)
            zeta2 = zetan_;
    }
    alpha_ = 1.0 / (1.0 - theta);
    eta_ = (1.0 - std::pow(2.0 / double(n), 1.0 - theta)) /
           (1.0 - zeta2 / zetan_);
}

u64
Zipf::draw(Rng &rng) const
{
    const double u = rng.unit();
    const double uz = u * zetan_;
    if (uz < 1.0)
        return 0;
    if (uz < 1.0 + std::pow(0.5, theta_))
        return 1;
    const u64 r =
        u64(double(n_) * std::pow(eta_ * u - eta_ + 1.0, alpha_));
    return std::min(r, n_ - 1);
}

double
percentile(std::vector<double> &v, double p)
{
    if (v.empty())
        return 0;
    std::size_t k = std::size_t(std::ceil(p / 100.0 * double(v.size())));
    k = std::clamp<std::size_t>(k, 1, v.size()) - 1;
    std::nth_element(v.begin(), v.begin() + k, v.end());
    return v[k];
}

double
median(std::vector<double> v)
{
    return percentile(v, 50);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // Linux reports KiB
}

std::vector<double>
Spans::selfTimes(const std::string &name) const
{
    std::vector<double> child(spans_.size(), 0.0);
    for (const Span &s : spans_)
        if (s.parent && s.endNs >= s.startNs)
            child[s.parent - 1] += double(s.endNs - s.startNs);
    std::vector<double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        if (name == s.name && s.endNs >= s.startNs)
            out.push_back(
                std::max(0.0, double(s.endNs - s.startNs) - child[i]));
    }
    return out;
}

void
Spans::write(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "cannot write spans to %s\n", path.c_str());
        return;
    }
    const u64 t0 = spans_.empty() ? 0 : spans_.front().startNs;
    std::fprintf(f, "{\"traceEvents\":[\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::fprintf(
            f,
            "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
            "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
            "\"parent\":%u,\"request\":%llu}}\n",
            i ? "," : "", s.name, double(s.startNs - t0) / 1e3,
            double(s.endNs - s.startNs) / 1e3, i + 1, s.parent,
            (unsigned long long)s.request);
    }
    std::fprintf(f, "]}\n");
    std::fclose(f);
}

void
Report::fail(const std::string &why)
{
    correct = false;
    if (errors.size() < 8)
        errors.push_back(why);
}

void
Report::print() const
{
    for (const std::string &e : errors)
        std::fprintf(stderr, "CHECK FAILED: %s\n", e.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false", (unsigned long long)attempted,
                (unsigned long long)failed);
    bool first = true;
    for (const auto &[name, vu] : metrics) {
        std::printf("%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}",
                    first ? "" : ", ", name.c_str(), vu.first,
                    vu.second.c_str());
        first = false;
    }
    std::printf("}}\n");
    std::fflush(stdout);
}

} // namespace pb
