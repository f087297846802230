#include "bench.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace p5bench {

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

// --- statistics --------------------------------------------------------

namespace {

double
percentileSorted(const std::vector<double> &v, double q)
{
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

} // namespace

Quantiles
quantiles(std::vector<double> samples)
{
    Quantiles q;
    q.n = samples.size();
    if (samples.empty())
        return q;
    std::sort(samples.begin(), samples.end());
    q.p50 = percentileSorted(samples, 0.50);
    q.p90 = percentileSorted(samples, 0.90);
    return q;
}

// --- peak resident set -------------------------------------------------

bool
PeakRss::reset()
{
    // "5" resets the peak RSS (VmHWM) of the writing process.
    std::ofstream f("/proc/self/clear_refs");
    if (!f)
        return false;
    f << "5";
    f.flush();
    return static_cast<bool>(f);
}

double
PeakRss::peakMb()
{
    std::ifstream f("/proc/self/status");
    std::string line;
    while (std::getline(f, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            std::istringstream is(line.substr(6));
            double kb = 0.0;
            is >> kb;
            return kb / 1024.0;
        }
    }
    return 0.0;
}

// --- tracing -----------------------------------------------------------

namespace {
thread_local int current_span = -1;
} // namespace

int
Tracer::begin(const std::string &name, int parent)
{
    Span s;
    s.name = name;
    s.parent = parent;
    s.start = Clock::now();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(s));
    return static_cast<int>(spans_.size() - 1);
}

void
Tracer::end(int id)
{
    const Clock::time_point now = Clock::now();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<std::size_t>(id)].end = now;
}

std::vector<Span>
Tracer::spans() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
}

std::vector<double>
Tracer::durationsMs(const std::string &name) const
{
    std::vector<double> out;
    std::lock_guard<std::mutex> lock(mutex_);
    for (const Span &s : spans_)
        if (s.name == name)
            out.push_back(secondsBetween(s.start, s.end) * 1e3);
    return out;
}

std::map<std::string, double>
Tracer::selfSeconds() const
{
    const std::vector<Span> all = spans();
    std::vector<std::vector<std::size_t>> children(all.size());
    for (std::size_t i = 0; i < all.size(); ++i)
        if (all[i].parent >= 0)
            children[static_cast<std::size_t>(all[i].parent)].push_back(i);

    std::map<std::string, double> self;
    for (std::size_t i = 0; i < all.size(); ++i) {
        const Span &s = all[i];
        // Union of the child intervals, clipped to the parent.
        std::vector<std::pair<Clock::time_point, Clock::time_point>> iv;
        for (std::size_t c : children[i])
            iv.emplace_back(std::max(all[c].start, s.start),
                            std::min(all[c].end, s.end));
        std::sort(iv.begin(), iv.end());
        double covered = 0.0;
        Clock::time_point reach = s.start;
        for (const auto &[a, b] : iv) {
            const Clock::time_point from = std::max(a, reach);
            if (b > from) {
                covered += secondsBetween(from, b);
                reach = b;
            }
        }
        self[s.name] += secondsBetween(s.start, s.end) - covered;
    }
    return self;
}

int
Tracer::current()
{
    return current_span;
}

void
Tracer::adopt(int id)
{
    current_span = id;
}

Scope::Scope(Tracer *tracer, const char *name) : tracer_(tracer)
{
    if (!tracer_)
        return;
    saved_ = current_span;
    id_ = tracer_->begin(name, saved_);
    current_span = id_;
}

Scope::~Scope()
{
    if (!tracer_)
        return;
    tracer_->end(id_);
    current_span = saved_;
}

// --- golden results ----------------------------------------------------

std::string
goldenText(const p5::FameResult &r)
{
    std::ostringstream os;
    for (const auto &t : r.thread)
        os << t.executions << ' ';
    for (const auto &t : r.thread)
        os << t.accountedCycles << ' ';
    for (const auto &t : r.thread)
        os << t.accountedInstrs << ' ';
    os << r.totalCycles;
    return os.str();
}

std::string
goldenText(const p5::AllocRunResult &r)
{
    std::ostringstream os;
    for (const auto &t : r.threads)
        os << t.committed << ' ';
    char ipc[64];
    std::snprintf(ipc, sizeof ipc, "%.17g", r.aggregateIpc);
    os << r.migrations << ' ' << ipc;
    return os.str();
}

bool
Golden::load(const std::string &path, std::string *error)
{
    std::ifstream f(path);
    if (!f) {
        if (error)
            *error = "cannot open golden file " + path;
        return false;
    }
    std::string line;
    while (std::getline(f, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        const std::size_t tab = line.find('\t');
        if (tab == std::string::npos) {
            if (error)
                *error = "malformed golden line in " + path + ": " + line;
            return false;
        }
        values_[line.substr(0, tab)] = line.substr(tab + 1);
    }
    return true;
}

bool
Golden::matches(const std::string &key, const std::string &text) const
{
    const auto it = values_.find(key);
    return it != values_.end() && it->second == text;
}

void
Golden::set(const std::string &key, const std::string &text)
{
    values_[key] = text;
}

bool
Golden::save(const std::string &path, const std::string &header) const
{
    std::ofstream f(path);
    if (!f)
        return false;
    f << header;
    for (const auto &[k, v] : values_)
        f << k << '\t' << v << '\n';
    return static_cast<bool>(f);
}

// --- metrics -----------------------------------------------------------

void
MetricSink::add(const std::string &name, double value,
                const std::string &unit)
{
    metrics_.push_back(Metric{name, value, unit});
}

void
MetricSink::timing(const std::string &name, const std::vector<double> &ms)
{
    const Quantiles q = quantiles(ms);
    if (q.n == 0)
        return;
    add(name + ".p50", q.p50, "ms");
    add(name + ".p90", q.p90, "ms");
    add(name + ".n", static_cast<double>(q.n), "count");
}

} // namespace p5bench
