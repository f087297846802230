/**
 * @file
 * Checkpoint byte-stream primitives and the archives the component
 * field walks run over.
 *
 * CkptWriter/CkptReader serialize architectural state into a flat,
 * versioned byte stream with a fixed little-endian wire format, so a
 * checkpoint produced on any host restores identically on any other.
 * Values are written field-wise (never by memcpy of a struct), which
 * keeps padding bytes out of the stream — the stream is a pure function
 * of simulated state, and therefore deterministic across runs. That
 * determinism is what lets equal warm keys publish identical files and
 * what the p5lint determinism rule audits serialization code for.
 *
 * The reader treats underrun or trailing bytes as fatal: every blob it
 * sees has already passed the file-level length + checksum validation
 * (see ckpt.hh), so a structural mismatch means a version-skew bug, not
 * a corrupt file.
 *
 * CkptSaver/CkptLoader wrap the two ends for the per-component
 * `template <class Ar> void ckptFields(Ar &ar)` walks (ckpt_state.cc):
 * each walk names every field once, with its wire width, and the same
 * list writes the field when saving and overwrites it when loading.
 */

#ifndef P5SIM_CKPT_CKPT_IO_HH
#define P5SIM_CKPT_CKPT_IO_HH

#include <cstdint>
#include <type_traits>
#include <vector>

#include "common/log.hh"
#include "common/stats.hh"

namespace p5 {

/** Appends fixed-width little-endian fields to a growing byte buffer. */
class CkptWriter
{
  public:
    void
    u8(std::uint8_t v)
    {
        bytes_.push_back(v);
    }

    void
    u32(std::uint32_t v)
    {
        for (int i = 0; i < 4; ++i)
            bytes_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }

    void
    u64(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            bytes_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }

    const std::vector<std::uint8_t> &data() const { return bytes_; }

  private:
    std::vector<std::uint8_t> bytes_;
};

/** Consumes a CkptWriter stream; fatal() on structural mismatch. */
class CkptReader
{
  public:
    CkptReader(const std::uint8_t *data, std::size_t size)
        : data_(data), size_(size)
    {}

    explicit CkptReader(const std::vector<std::uint8_t> &bytes)
        : CkptReader(bytes.data(), bytes.size())
    {}

    std::uint8_t
    u8()
    {
        need(1);
        return data_[pos_++];
    }

    std::uint32_t
    u32()
    {
        need(4);
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<std::uint32_t>(data_[pos_++]) << (8 * i);
        return v;
    }

    std::uint64_t
    u64()
    {
        need(8);
        std::uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<std::uint64_t>(data_[pos_++]) << (8 * i);
        return v;
    }

    /** Assert the whole stream was consumed (end-of-restore check). */
    void
    expectEnd() const
    {
        if (pos_ != size_)
            fatal("checkpoint blob has %zu trailing bytes "
                  "(serializer/deserializer version skew)",
                  size_ - pos_);
    }

  private:
    void
    need(std::uint64_t n) const
    {
        if (n > size_ - pos_)
            fatal("checkpoint blob underrun: want %llu bytes, have %zu "
                  "(serializer/deserializer version skew)",
                  static_cast<unsigned long long>(n), size_ - pos_);
    }

    const std::uint8_t *data_;
    std::size_t size_;
    std::size_t pos_ = 0;
};

/** fatal() unless a geometry read from the stream matches the core's. */
inline void
expectGeom(const char *what, std::uint64_t saved, std::uint64_t built)
{
    if (saved != built)
        fatal("checkpoint geometry mismatch: %s is %llu in the stream "
              "but %llu in the restoring core (checkpoint key bug?)",
              what, static_cast<unsigned long long>(saved),
              static_cast<unsigned long long>(built));
}

/** An integer field converted to or from its wire width. */
template <class To, class From>
To
ckptInt(From v)
{
    static_assert(std::is_integral_v<To> && std::is_integral_v<From> &&
                      !std::is_same_v<To, bool> &&
                      !std::is_same_v<From, bool>,
                  "integer fields only: bools use b(), enums enum8()");
    return static_cast<To>(v);
}

/**
 * Saving archive: each call appends the field at the named width
 * (bools and enums take one byte, a Counter its value). geom() records
 * a geometry that the loading side checks instead of restoring.
 */
class CkptSaver
{
  public:
    static constexpr bool loading = false;

    explicit CkptSaver(CkptWriter &w) : w_(w) {}

    template <class T> void u8(T v) { w_.u8(ckptInt<std::uint8_t>(v)); }
    template <class T> void u32(T v) { w_.u32(ckptInt<std::uint32_t>(v)); }
    template <class T> void u64(T v) { w_.u64(ckptInt<std::uint64_t>(v)); }

    template <class T>
    void
    i32(T v)
    {
        w_.u32(ckptInt<std::uint32_t>(ckptInt<std::int32_t>(v)));
    }

    void b(bool v) { w_.u8(v ? 1 : 0); }
    void counter(const Counter &c) { w_.u64(c.value()); }

    template <class E>
    void
    enum8(E e)
    {
        static_assert(std::is_enum_v<E>);
        w_.u8(static_cast<std::uint8_t>(e));
    }

    void geom(const char *, std::uint64_t built) { w_.u64(built); }

  private:
    CkptWriter &w_;
};

/** Loading archive: each call overwrites the field from the stream. */
class CkptLoader
{
  public:
    static constexpr bool loading = true;

    explicit CkptLoader(CkptReader &r) : r_(r) {}

    template <class T> void u8(T &v) { v = ckptInt<T>(r_.u8()); }
    template <class T> void u32(T &v) { v = ckptInt<T>(r_.u32()); }
    template <class T> void u64(T &v) { v = ckptInt<T>(r_.u64()); }

    template <class T>
    void
    i32(T &v)
    {
        v = ckptInt<T>(ckptInt<std::int32_t>(r_.u32()));
    }

    void b(bool &v) { v = r_.u8() != 0; }
    void counter(Counter &c) { c.restore(r_.u64()); }

    template <class E>
    void
    enum8(E &e)
    {
        static_assert(std::is_enum_v<E>);
        e = static_cast<E>(r_.u8());
    }

    /** The saved geometry must equal @p built, the restoring core's. */
    void
    geom(const char *what, std::uint64_t built)
    {
        expectGeom(what, r_.u64(), built);
    }

  private:
    CkptReader &r_;
};

} // namespace p5

#endif // P5SIM_CKPT_CKPT_IO_HH
