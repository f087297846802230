// p5lint fixture — analysis-only, never compiled.
// BAD: the checkpoint shape of src/ckpt/ckpt_state.cc — serialize roots
// that run one member-template field walk over a saving or a loading
// archive — with a walk that iterates an unordered_map under
// P5_ALLOW(determinism).  The const save root reaches the walk through
// a const_cast'ed self; inside a serialize root's reach the exemption
// is void, so p5lint must flag determinism and nothing else.

#include <cstdint>
#include <string>
#include <unordered_map>

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
    P5_ALLOW(determinism) // lookup-only in the report path
    std::unordered_map<std::string, std::uint64_t> counters_;

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
    P5_ALLOW(determinism) // hash-order bytes: the allow is void here
    for (auto &kv : counters_)
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
