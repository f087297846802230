/**
 * @file
 * Warm-state sharing across the jobs of one process, plus optional
 * persistence through a CkptStore.
 *
 * The manager implements the checkpoint/fork execution model: jobs that
 * share a *warm key* (the priority- and measurement-free slice of their
 * identity — same programs, same core geometry, same warm-up policy)
 * share one warm-up. The first job to ask for a key claims it and either
 * loads the warm image from the attached store (a *store fork*) or runs
 * the warm-up itself and publishes the serialized state; every later job
 * blocks on the claim and restores the shared image into its own fresh
 * core (an *in-memory fork*). With 36 priority pairs per pair-mix this
 * turns 36 warm-ups into one.
 *
 * Claims go through a ClaimMap, the same claim-once memo that backs the
 * SimRunner's ResultCache: a shared_future per key,
 * first-claimant-computes. If the store load or the warm-up throws, the
 * claimant abandons the key and hands the exception to the waiting
 * siblings, so the next acquire of that key warms afresh. Blocking a
 * pool thread on the future cannot deadlock because an entry only
 * exists while (or after) its creator is actively warming on another
 * pool thread.
 */

#ifndef P5SIM_CKPT_CKPT_MANAGER_HH
#define P5SIM_CKPT_CKPT_MANAGER_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "ckpt/ckpt.hh"
#include "common/claim_map.hh"

namespace p5 {

/** In-process checkpoint cache with claim/fork semantics. */
class CkptManager
{
  public:
    CkptManager() = default;
    CkptManager(const CkptManager &) = delete;
    CkptManager &operator=(const CkptManager &) = delete;

    /**
     * Attach a persistent area. Claims consult it before warming and
     * write freshly created checkpoints through to it. Not owned; must
     * outlive the manager.
     */
    void setStore(CkptStore *store) { store_ = store; }

    CkptStore *store() const { return store_; }

    /** Builds (warms + serializes) the checkpoint for a claimed key. */
    using WarmFn = std::function<Checkpoint()>;

    /** Outcome of acquire(): the shared image plus how it was obtained. */
    struct Acquired
    {
        std::shared_ptr<const Checkpoint> ckpt;

        /** This caller ran the warm-up inline (its core is now warm). */
        bool created = false;
    };

    /**
     * Get the checkpoint for @p warm_key, warming at most once per key
     * per area. The first caller claims the key: it loads from the
     * attached store when possible, otherwise runs @p warm inline and
     * publishes (write-through to the store). Later callers block until
     * the claimant finishes and receive the shared image. An exception
     * from the store load or @p warm reaches the claimant and every
     * waiting sibling, and leaves the key unclaimed.
     *
     * When Acquired.created is true the caller's own core already holds
     * the warm state (warm ran on it) and must NOT restore; otherwise
     * the caller forks by deserializing Acquired.ckpt into a fresh core.
     */
    Acquired acquire(const std::string &warm_key, const WarmFn &warm);

    /** Warm-ups actually simulated (checkpoint creations). */
    std::uint64_t warms() const { return warms_.load(); }

    /** Jobs satisfied by restoring an in-process sibling's image. */
    std::uint64_t memForks() const { return memForks_.load(); }

    /** Keys satisfied by loading the persistent area. */
    std::uint64_t storeForks() const { return storeForks_.load(); }

    /** Total jobs that skipped their warm-up (all fork flavors). */
    std::uint64_t forks() const { return memForks() + storeForks(); }

  private:
    ClaimMap<std::shared_ptr<const Checkpoint>> claims_;
    CkptStore *store_ = nullptr;
    std::atomic<std::uint64_t> warms_{0};
    std::atomic<std::uint64_t> memForks_{0};
    std::atomic<std::uint64_t> storeForks_{0};
};

} // namespace p5

#endif // P5SIM_CKPT_CKPT_MANAGER_HH
