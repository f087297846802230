#include "common/blob_store.hh"

#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <dirent.h>
#include <fstream>
#include <sstream>

#include "common/json.hh"
#include "common/log.hh"
#include "common/parse.hh"
#include "common/rng.hh"

namespace p5 {

namespace {

/** Temp-file sequence shared by every writer in the process. */
std::atomic<std::uint64_t> temp_counter{0};

/**
 * mkdir -p. The common case (the directory exists) costs one mkdir;
 * missing parents are created only on ENOENT. A checkpoint area often
 * lives inside a result store that does not exist yet, and a user may
 * name any nested path.
 */
void
makeDirs(const std::string &path, const char *kind)
{
    if (::mkdir(path.c_str(), 0777) == 0 || errno == EEXIST)
        return;
    int err = errno;
    if (err == ENOENT) {
        const std::size_t slash = path.rfind('/');
        if (slash != std::string::npos && slash > 0) {
            makeDirs(path.substr(0, slash), kind);
            if (::mkdir(path.c_str(), 0777) == 0 || errno == EEXIST)
                return;
            err = errno;
        }
    }
    fatal("cannot create %s directory '%s': %s", kind, path.c_str(),
          std::strerror(err));
}

/** Stable 64-bit digest of @p bytes (SplitMix64 chain). */
std::uint64_t
blobChecksum(std::string_view bytes)
{
    const auto *data = reinterpret_cast<const std::uint8_t *>(bytes.data());
    const std::size_t size = bytes.size();
    std::uint64_t h = hashMix(0x9c5dab1ec4f00d5eULL ^ size);
    std::size_t i = 0;
    for (; i + 8 <= size; i += 8) {
        std::uint64_t word = 0;
        std::memcpy(&word, data + i, 8);
        h = hashCombine(h, word);
    }
    std::uint64_t tail = 0;
    for (std::size_t k = 0; i < size; ++i, ++k)
        tail |= static_cast<std::uint64_t>(data[i]) << (8 * k);
    return hashCombine(h, tail);
}

} // namespace

bool
readWholeFile(const std::string &path, std::string &out)
{
    // A stream copy, not one presized read(2): on perfbench's
    // sweep_store workload the presized buffer measured about 1.5 MB
    // more peak RSS, an allocator effect.
    std::ifstream is(path, std::ios::binary);
    if (!is)
        return false;
    std::ostringstream buf;
    buf << is.rdbuf();
    out = buf.str();
    return true;
}

void
publishFile(const std::string &path,
            std::initializer_list<std::string_view> parts)
{
    const std::string temp = path + ".tmp." + std::to_string(::getpid()) +
                             "." + std::to_string(temp_counter.fetch_add(1));
    {
        std::ofstream os(temp, std::ios::binary | std::ios::trunc);
        if (!os)
            fatal("cannot write '%s': %s", temp.c_str(),
                  std::strerror(errno));
        for (std::string_view part : parts)
            os.write(part.data(), static_cast<std::streamsize>(part.size()));
        if (!os.flush())
            fatal("short write to '%s'", temp.c_str());
    }
    if (std::rename(temp.c_str(), path.c_str()) != 0)
        fatal("cannot publish '%s': %s", path.c_str(),
              std::strerror(errno));
}

bool
quarantineFile(const std::string &path)
{
    return std::rename(path.c_str(), (path + ".bad").c_str()) == 0;
}

// --- framing -------------------------------------------------------------

FrameSeal
FrameSeal::of(std::string_view payload)
{
    return FrameSeal{payload.size(), blobChecksum(payload)};
}

void
FrameSeal::write(JsonWriter &w) const
{
    w.member("bytes", bytes);
    w.member("checksum", hex16(checksum));
}

bool
FrameSeal::read(const JsonValue &header)
{
    const JsonValue *size = header.find("bytes");
    const JsonValue *sum = header.find("checksum");
    if (!size || !size->isInt() || size->asInt() < 0 || !sum ||
        !sum->isString())
        return false;
    // Exactly the 16 lower-case digits hex16() writes.
    const std::string &text = sum->asString();
    std::from_chars(text.data(), text.data() + text.size(), checksum, 16);
    bytes = static_cast<std::uint64_t>(size->asInt());
    return hex16(checksum) == text;
}

std::string
FrameSeal::check(std::string_view payload) const
{
    if (payload.size() != bytes)
        return "payload is " + std::to_string(payload.size()) +
               " bytes, header says " + std::to_string(bytes);
    if (blobChecksum(payload) != checksum)
        return "payload checksum mismatch";
    return "";
}

bool
splitFrame(std::string_view bytes, Frame &out)
{
    const std::size_t nl = bytes.find('\n');
    if (nl == std::string_view::npos)
        return false;
    out.header = bytes.substr(0, nl);
    out.payload = bytes.substr(nl + 1);
    return true;
}

// --- layout and classification ---------------------------------------------

BlobFile
classifyBlobFile(const std::string &name, const BlobLayout &layout)
{
    if (name.size() >= 4 && name.compare(name.size() - 4, 4, ".bad") == 0)
        return BlobFile::Quarantined;
    if (name.find(".tmp.") != std::string::npos)
        return BlobFile::OrphanTemp;
    const std::size_t m = name.rfind(layout.marker);
    if (m == std::string::npos)
        return BlobFile::Other;
    const std::size_t digits = m + std::strlen(layout.marker);
    std::size_t end = digits;
    while (end < name.size() && name[end] >= '0' && name[end] <= '9')
        ++end;
    std::int64_t version = 0;
    if (end == digits || name.compare(end, std::string::npos, layout.ext) ||
        parseInt64(name.substr(digits, end - digits), version) !=
            ParseStatus::Ok)
        return BlobFile::Other;
    return version == layout.version ? BlobFile::Live : BlobFile::Superseded;
}

// --- the store -----------------------------------------------------------

BlobStore::BlobStore(std::string dir, const char *kind,
                     const char *meta_name, std::vector<VersionPin> pins,
                     BlobLayout layout)
    : dir_(std::move(dir)), kind_(kind), layout_(layout)
{
    if (dir_.empty())
        fatal("%s directory must not be empty", kind_);
    while (dir_.size() > 1 && dir_.back() == '/')
        dir_.pop_back();
    makeDirs(dir_, kind_);

    const std::string meta_path = dir_ + "/" + meta_name;
    std::string meta_text;
    if (readWholeFile(meta_path, meta_text) && !meta_text.empty()) {
        JsonValue meta;
        std::string error;
        if (!tryParseJson(meta_text, meta, &error, meta_path))
            fatal("corrupt %s metadata: %s", kind_, error.c_str());
        for (const VersionPin &pin : pins) {
            const JsonValue *v =
                meta.isObject() ? meta.find(pin.member) : nullptr;
            if (!v || !v->isInt())
                fatal("%s metadata '%s' is missing its version members",
                      kind_, meta_path.c_str());
        }
        for (const VersionPin &pin : pins) {
            const std::int64_t theirs = meta.find(pin.member)->asInt();
            if (theirs != pin.value)
                fatal("%s directory '%s' was written with %s v%lld; this "
                      "binary uses v%d — refusing to open an "
                      "incompatible %s directory",
                      kind_, dir_.c_str(), pin.label,
                      static_cast<long long>(theirs), pin.value, kind_);
        }
        return;
    }
    std::ostringstream os;
    {
        JsonWriter w(os);
        w.beginObject();
        for (const VersionPin &pin : pins)
            w.member(pin.member, pin.value);
        w.endObject();
    }
    // Concurrent creators write identical bytes.
    publishFile(meta_path, {os.str()});
}

std::string
BlobStore::pathFor(const std::string &fp_hex) const
{
    return dir_ + "/" + fp_hex.substr(0, 2) + "/" + fp_hex +
           layout_.marker + std::to_string(layout_.version) + layout_.ext;
}

bool
BlobStore::contains(const std::string &fp_hex) const
{
    struct stat st;
    return ::stat(pathFor(fp_hex).c_str(), &st) == 0;
}

void
BlobStore::quarantine(const std::string &path)
{
    // A failed rename usually means another reader got there first;
    // either way only a rename that happened is counted.
    if (!quarantineFile(path)) {
        warn("cannot quarantine corrupt %s file '%s': %s", kind_,
             path.c_str(), std::strerror(errno));
        return;
    }
    quarantined_.fetch_add(1);
    warn("quarantined corrupt %s file '%s' (now .bad)", kind_,
         path.c_str());
}

bool
BlobStore::load(const std::string &fp_hex,
                const std::function<bool(const std::string &)> &accept)
{
    const std::string path = pathFor(fp_hex);
    std::string bytes;
    if (!readWholeFile(path, bytes)) {
        misses_.fetch_add(1);
        return false;
    }
    if (bytes.empty() || !accept(bytes)) {
        quarantine(path);
        misses_.fetch_add(1);
        return false;
    }
    hits_.fetch_add(1);
    return true;
}

void
BlobStore::publish(const std::string &fp_hex,
                   std::initializer_list<std::string_view> parts)
{
    makeDirs(dir_ + "/" + fp_hex.substr(0, 2), kind_);
    publishFile(pathFor(fp_hex), parts);
    writes_.fetch_add(1);
}

std::size_t
BlobStore::countEntries() const
{
    std::size_t count = 0;
    DIR *top = ::opendir(dir_.c_str());
    if (!top)
        return 0;
    while (const dirent *shard = ::readdir(top)) {
        const std::string name = shard->d_name;
        if (name.size() != 2 || name == "..")
            continue;
        DIR *sub = ::opendir((dir_ + "/" + name).c_str());
        if (!sub)
            continue;
        while (const dirent *entry = ::readdir(sub))
            if (classifyBlobFile(entry->d_name, layout_) == BlobFile::Live)
                ++count;
        ::closedir(sub);
    }
    ::closedir(top);
    return count;
}

} // namespace p5
