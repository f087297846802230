#include "ckpt/ckpt.hh"

#include <sstream>

#include "common/json.hh"
#include "common/rng.hh"

namespace p5 {

namespace {

constexpr const char *header_magic = "p5sim-ckpt";

} // namespace

std::string
ckptFingerprintHex(const std::string &warm_key)
{
    // Its own chain constant, so checkpoint addresses are independent
    // of both the result-store addresses and the job RNG streams even
    // for keys that happen to share text.
    return hex16(hashText(0xc4b7a11ced15f0e3ULL, warm_key));
}

BlobLayout
CkptStore::layout()
{
    return BlobLayout{"-ckpt-v", ckpt_format_version, ".bin"};
}

CkptStore::CkptStore(std::string dir, int schema_version)
    : schemaVersion_(schema_version),
      blobs_(std::move(dir), "checkpoint", "ckpt_meta.json",
             {{"ckptVersion", "format", ckpt_format_version},
              {"schemaVersion", "config schema version", schema_version}},
             layout())
{}

bool
CkptStore::load(const std::string &warm_key, Checkpoint &out)
{
    const std::string fp = ckptFingerprintHex(warm_key);
    return blobs_.load(fp, [&](const std::string &bytes) {
        Frame frame;
        JsonValue header;
        if (!splitFrame(bytes, frame) ||
            !tryParseJson(frame.header, header) || !header.isObject())
            return false;
        const JsonValue *magic = header.find("magic");
        const JsonValue *version = header.find("ckptVersion");
        const JsonValue *schema = header.find("schemaVersion");
        const JsonValue *fp_v = header.find("fingerprint");
        const JsonValue *key_v = header.find("warmKey");
        const JsonValue *cycles = header.find("warmCycles");
        FrameSeal seal;
        // The embedded warm key turns a fingerprint collision (or a
        // misplaced file) into a miss instead of a foreign-state
        // restore.
        if (!magic || !magic->isString() ||
            magic->asString() != header_magic || !version ||
            !version->isInt() ||
            version->asInt() != ckpt_format_version || !schema ||
            !schema->isInt() || schema->asInt() != schemaVersion_ ||
            !fp_v || !fp_v->isString() || fp_v->asString() != fp ||
            !key_v || !key_v->isString() ||
            key_v->asString() != warm_key || !cycles ||
            !cycles->isInt() || !seal.read(header) ||
            !seal.check(frame.payload).empty())
            return false;
        out.warmKey = warm_key;
        out.fingerprint = fp;
        out.warmCycles = static_cast<Cycle>(cycles->asInt());
        out.state.assign(frame.payload.begin(), frame.payload.end());
        return true;
    });
}

void
CkptStore::put(const Checkpoint &ckpt)
{
    const std::string fp = ckpt.fingerprint.empty()
                               ? ckptFingerprintHex(ckpt.warmKey)
                               : ckpt.fingerprint;
    const std::string_view payload(
        reinterpret_cast<const char *>(ckpt.state.data()),
        ckpt.state.size());
    std::ostringstream os;
    {
        // Compact mode: the header must be exactly one line.
        JsonWriter w(os, -1);
        w.beginObject();
        w.member("magic", header_magic);
        w.member("ckptVersion", ckpt_format_version);
        w.member("schemaVersion", schemaVersion_);
        w.member("fingerprint", fp);
        w.member("warmCycles", static_cast<std::int64_t>(ckpt.warmCycles));
        FrameSeal::of(payload).write(w);
        w.member("warmKey", ckpt.warmKey);
        w.endObject();
    }
    os << '\n';
    blobs_.publish(fp, {os.str(), payload});
}

} // namespace p5
