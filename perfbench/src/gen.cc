#include "gen.hh"

namespace pb {

PhaseOut
runOpenLoop(const std::vector<Req> &sched, const SubmitFn &submit,
            widx::sw::CompletionQueue &cq, const CheckFn &check,
            u64 graceNs, bool closed)
{
    PhaseOut out;
    const std::size_t n = sched.size();
    out.done.resize(n);
    out.lateNs.resize(n);
    if (n == 0)
        return out;

    // One thread sends and reaps: while it waits for the next due
    // time it polls the completion queue. Neither a sleeping sender
    // nor a blocked reaper adds its own wake-up to the latencies, and
    // the generator holds one core, not two.
    u64 reaped = 0;
    std::vector<widx::sw::Completion> buf;
    auto poll = [&] {
        if (cq.size() == 0)
            return false;
        buf.clear();
        cq.reap(buf, 1024, std::chrono::nanoseconds(0));
        const u64 t = nowNs();
        for (widx::sw::Completion &c : buf) {
            if (c.tag >= n || out.done[c.tag].done) {
                ++out.strays;
                continue;
            }
            Done &d = out.done[c.tag];
            d.doneNs = t;
            d.status = c.result.status;
            d.matches = c.result.matches;
            if (d.status == Status::Ok)
                d.why = check(c.tag, c.result);
            d.done = true;
            ++reaped;
        }
        return true;
    };

    const u64 start = nowNs() + 2'000'000;
    for (std::size_t i = 0; i < n; ++i) {
        Done &d = out.done[i];
        if (closed) {
            // Closed loop: due when the previous request completed.
            while (reaped < i && nowNs() < start + graceNs)
                if (!poll())
                    cpuRelax();
            d.dueNs = std::max(start, nowNs());
        } else {
            d.dueNs = start + sched[i].atNs;
        }
        while (nowNs() < d.dueNs)
            if (!poll())
                cpuRelax();
        const u64 t0 = nowNs();
        d.sentNs = t0;
        out.lateNs[i] = double(t0 - d.dueNs);
        submit(i, sched[i], d.dueNs);
        d.callNs = nowNs() - t0;
    }
    const u64 stop = nowNs() + graceNs;
    while (reaped < n && nowNs() < stop)
        if (!poll())
            cpuRelax();

    u64 last = start;
    for (const Done &d : out.done) {
        if (d.done)
            last = std::max(last, d.doneNs);
        else
            ++out.missing;
    }
    out.wallS = double(last - start) / 1e9;
    return out;
}

std::vector<double>
latencies(const PhaseOut &p, const std::function<bool(u64)> &pick)
{
    std::vector<double> v;
    v.reserve(p.done.size());
    for (u64 i = 0; i < p.done.size(); ++i)
        if (p.done[i].done && pick(i))
            v.push_back(p.done[i].latencyNs());
    return v;
}

bool
backlogGrew(const PhaseOut &p, double slackNs)
{
    const std::size_t n = p.done.size();
    if (n < 10)
        return false;
    auto fifth = [&](std::size_t k) {
        std::vector<double> v;
        for (std::size_t i = k * n / 5; i < (k + 1) * n / 5; ++i)
            v.push_back(p.done[i].done ? p.done[i].latencyNs() : 1e18);
        return median(v);
    };
    return fifth(4) > 2 * fifth(1) + slackNs;
}

std::vector<u64>
poissonTimes(u64 n, double ratePerS, Rng &rng)
{
    std::vector<u64> t(n);
    double at = 0;
    const double meanNs = 1e9 / ratePerS;
    for (u64 i = 0; i < n; ++i) {
        at += rng.exponential(meanNs);
        t[i] = u64(at);
    }
    return t;
}

} // namespace pb
