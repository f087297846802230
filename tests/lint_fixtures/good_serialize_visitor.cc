// p5lint fixture — analysis-only, never compiled.
// GOOD twin of bad_serialize_visitor.cc: the member-template field walk
// behind both serialize roots iterates a std::map, whose order is the
// key order — stable bytes, no findings.

#include <cstdint>
#include <map>
#include <string>

namespace fixture {

struct Writer;
struct Reader;

void expectSize(std::uint64_t saved, std::uint64_t built);

struct Saver
{
    static constexpr bool loading = false;
    explicit Saver(Writer &w);
    void u64(const std::uint64_t &v);
};

struct Loader
{
    static constexpr bool loading = true;
    explicit Loader(Reader &r);
    void u64(std::uint64_t &v);
};

struct WarmStats
{
    std::map<std::string, std::uint64_t> counters_;

    P5_SERIALIZE_ROOT void saveState(Writer &w) const;
    P5_SERIALIZE_ROOT void restoreState(Reader &r);

    template <class Ar> void ckptFields(Ar &ar);
};

template <class Ar>
void
WarmStats::ckptFields(Ar &ar)
{
    std::uint64_t n = counters_.size();
    ar.u64(n);
    if constexpr (Ar::loading)
        expectSize(n, counters_.size()); // keys are fixed by construction
    for (auto &kv : counters_) // key order: deterministic
        ar.u64(kv.second);
}

void
WarmStats::saveState(Writer &w) const
{
    WarmStats &self = const_cast<WarmStats &>(*this);
    Saver ar(w);
    self.ckptFields(ar);
}

void
WarmStats::restoreState(Reader &r)
{
    Loader ar(r);
    ckptFields(ar);
}

} // namespace fixture
