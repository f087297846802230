/**
 * @file
 * BlobStore: the one content-addressed file store under the result
 * store (store/), the checkpoint area (ckpt/) and trace files
 * (program/trace). It owns every file-store decision; the typed stores
 * only encode, decode and check their documents. DESIGN §15 has the
 * whole discipline; in short:
 *
 *  - layout <dir>/<fp[0:2]>/<fp><marker><version><ext>, directories
 *    made with mkdir -p, a meta file pinning versions (a mismatch is
 *    fatal);
 *  - publish writes "<path>.tmp.<pid>.<n>" and renames it over the
 *    final name, so readers never see a torn file and concurrent
 *    writers of identical bytes race harmlessly;
 *  - a file its codec rejects is quarantined to "<path>.bad" and read
 *    as a miss.
 *
 * Durability: nothing is fsynced. Publish is atomic against a process
 * crash (a killed writer leaves at most an orphan temp file), but not
 * durable against an OS crash, which can leave a published file torn.
 * That is deliberate: a torn file fails validation at load and is
 * quarantined, so a crash costs recomputation, never a wrong result.
 *
 * Framing: checkpoints and traces are one compact JSON header line,
 * '\n', then a binary payload; the header's "bytes" and "checksum"
 * members (FrameSeal) catch truncation and bit rot before decoding.
 */

#ifndef P5SIM_COMMON_BLOB_STORE_HH
#define P5SIM_COMMON_BLOB_STORE_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

namespace p5 {

class JsonValue;
class JsonWriter;

/** Read all of @p path into @p out; false when it cannot be opened. */
bool readWholeFile(const std::string &path, std::string &out);

/**
 * Atomically replace @p path with the concatenation of @p parts (temp
 * file + rename). The parent directory must exist. fatal() on failure.
 */
void publishFile(const std::string &path,
                 std::initializer_list<std::string_view> parts);

/** Rename @p path to "<path>.bad"; true when the rename happened. */
bool quarantineFile(const std::string &path);

// --- framing -------------------------------------------------------------

/** The integrity members of a framed file's header. */
struct FrameSeal
{
    std::uint64_t bytes = 0;    ///< payload size
    std::uint64_t checksum = 0; ///< SplitMix64 digest of the payload

    static FrameSeal of(std::string_view payload);

    /** Emit the "bytes" and "checksum" header members. */
    void write(JsonWriter &w) const;

    /** Parse them back; false when either is missing or malformed. */
    bool read(const JsonValue &header);

    /** "" when @p payload matches, else the reason it does not. */
    std::string check(std::string_view payload) const;
};

/** A framed file split at the first newline. */
struct Frame
{
    std::string_view header;  ///< the JSON header line, without '\n'
    std::string_view payload; ///< everything after it
};

/** Split @p bytes into header line and payload; false without '\n'. */
bool splitFrame(std::string_view bytes, Frame &out);

// --- the store -----------------------------------------------------------

/** How a store names its files: "<fp><marker><version><ext>". */
struct BlobLayout
{
    const char *marker; ///< between fingerprint and version ("-v")
    int version;        ///< the generation this binary writes
    const char *ext;    ///< file extension (".json")
};

/** What a file name in a store directory is, for store-gc. */
enum class BlobFile
{
    Live,        ///< current generation of this layout
    Quarantined, ///< "*.bad"
    OrphanTemp,  ///< "*.tmp.*": a writer died before its rename
    Superseded,  ///< this layout, another generation
    Other,       ///< not this layout's (meta files, foreign names)
};

/**
 * Classify basename @p name against @p layout without opening the file:
 * a collector must not need to read (or trust) what it deletes, and it
 * must work on a store whose meta pins another version.
 */
BlobFile classifyBlobFile(const std::string &name,
                          const BlobLayout &layout);

/** One version a store's meta file pins. */
struct VersionPin
{
    const char *member; ///< meta member name ("schemaVersion")
    const char *label;  ///< for messages ("config schema version")
    int value;          ///< the version this binary uses
};

/** A content-addressed directory of files (see the file comment). */
class BlobStore
{
  public:
    /**
     * Open @p dir, creating it (mkdir -p) and its meta file
     * @p meta_name when absent. @p kind names the store in messages
     * ("store", "checkpoint"). Fatal when the directory cannot be
     * created or an existing meta pins other versions than @p pins.
     */
    BlobStore(std::string dir, const char *kind, const char *meta_name,
              std::vector<VersionPin> pins, BlobLayout layout);

    const std::string &dir() const { return dir_; }

    /** Path a fingerprint maps to under this store. */
    std::string pathFor(const std::string &fp_hex) const;

    /** Existence probe (no read or validation). */
    bool contains(const std::string &fp_hex) const;

    /**
     * Read the file for @p fp_hex and hand its bytes to @p accept. A
     * missing file is a miss. An empty file, or one @p accept rejects,
     * is quarantined and is a miss. Otherwise a hit.
     */
    bool load(const std::string &fp_hex,
              const std::function<bool(const std::string &)> &accept);

    /** Publish the concatenation of @p parts under @p fp_hex. */
    void publish(const std::string &fp_hex,
                 std::initializer_list<std::string_view> parts);

    /** Count a lookup that never reached the disk as a miss. */
    void noteMiss() { misses_.fetch_add(1); }

    /** Live files in the store (directory scan). */
    std::size_t countEntries() const;

    std::uint64_t hits() const { return hits_.load(); }
    std::uint64_t misses() const { return misses_.load(); }
    std::uint64_t writes() const { return writes_.load(); }
    std::uint64_t quarantined() const { return quarantined_.load(); }

  private:
    void quarantine(const std::string &path);

    std::string dir_;
    const char *kind_;
    BlobLayout layout_;
    std::atomic<std::uint64_t> hits_{0};
    std::atomic<std::uint64_t> misses_{0};
    std::atomic<std::uint64_t> writes_{0};
    std::atomic<std::uint64_t> quarantined_{0};
};

} // namespace p5

#endif // P5SIM_COMMON_BLOB_STORE_HH
