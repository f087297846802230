#include "store/result_store.hh"

#include <sstream>

#include "common/rng.hh"
#include "store/result_io.hh"

namespace p5 {

BlobLayout
ResultStore::layout(int schema)
{
    return BlobLayout{"-v", schema, ".json"};
}

ResultStore::ResultStore(std::string dir, int schema_version)
    : schemaVersion_(schema_version),
      blobs_(std::move(dir), "store", "store_meta.json",
             {{"storeVersion", "file format", store_format_version},
              {"schemaVersion", "config schema version", schema_version}},
             layout(schema_version))
{}

std::string
ResultStore::fingerprintHex(const SimJob &job)
{
    // Distinct chain from SimJob::rngSeed() (different initial mix), so
    // the store address and the RNG stream stay independent functions
    // of the key.
    return hex16(hashText(0xce5707ed2f00dbadULL, job.key()));
}

bool
ResultStore::contains(const SimJob &job) const
{
    return storableKind(job.kind) && blobs_.contains(fingerprintHex(job));
}

bool
ResultStore::parseDoc(const std::string &text, JsonValue &out) const
{
    if (!tryParseJson(text, out) || !out.isObject())
        return false;
    const JsonValue *store_v = out.find("storeVersion");
    const JsonValue *schema_v = out.find("schemaVersion");
    return store_v && store_v->isInt() &&
           store_v->asInt() == store_format_version && schema_v &&
           schema_v->isInt() && schema_v->asInt() == schemaVersion_;
}

bool
ResultStore::load(const SimJob &job, SimResult &out)
{
    if (!storableKind(job.kind)) {
        blobs_.noteMiss();
        return false;
    }
    const std::string key = job.key();
    return blobs_.load(fingerprintHex(job), [&](const std::string &text) {
        // The embedded canonical key turns a fingerprint collision (or
        // a hand-misplaced file) into a miss instead of a wrong result.
        JsonValue doc;
        if (!parseDoc(text, doc))
            return false;
        const JsonValue *job_key = doc.find("jobKey");
        const JsonValue *result = doc.find("result");
        return job_key && job_key->isString() &&
               job_key->asString() == key && result &&
               readSimResult(*result, out);
    });
}

void
ResultStore::put(const SimJob &job, const SimResult &result,
                 const StoreProvenance &prov)
{
    if (!storableKind(job.kind))
        return;
    const std::string fp = fingerprintHex(job);
    std::ostringstream os;
    {
        JsonWriter w(os);
        w.beginObject();
        w.member("storeVersion", store_format_version);
        w.member("schemaVersion", schemaVersion_);
        w.member("fingerprint", fp);
        w.member("configFingerprint", job.configTag);
        w.member("jobKey", job.key());
        w.member("seed", prov.seed);
        w.key("sweep");
        w.beginObject();
        for (const auto &coord : prov.sweep)
            w.member(coord.first, coord.second);
        w.endObject();
        w.key("result");
        writeSimResult(w, result);
        w.endObject();
    }
    blobs_.publish(fp, {os.str()});
}

bool
ResultStore::loadRaw(const std::string &fp_hex, JsonValue &out)
{
    if (fp_hex.size() != 16)
        return false;
    for (char c : fp_hex)
        if (!((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')))
            return false;
    return blobs_.load(fp_hex, [&](const std::string &text) {
        return parseDoc(text, out);
    });
}

} // namespace p5
