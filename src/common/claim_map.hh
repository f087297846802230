/**
 * @file
 * ClaimMap: a claim-once memo shared by concurrent producers.
 *
 * The first caller to claim a key is its claimant (a miss): it computes
 * the value and fulfils the returned promise. Every later caller gets
 * the same shared_future to wait on (a hit). A claimant whose work
 * fails sets the exception on its promise, so the siblings already
 * waiting see it, and abandons the key, so the next claim computes
 * afresh instead of inheriting the failure.
 *
 * Both of p5sim's memos sit on it: the SimRunner's ResultCache (one
 * simulation per job key) and the CkptManager (one warm-up per warm
 * key).
 */

#ifndef P5SIM_COMMON_CLAIM_MAP_HH
#define P5SIM_COMMON_CLAIM_MAP_HH

#include <atomic>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>

namespace p5 {

/** Thread-safe map from key to a computed (or in-progress) value. */
template <class V>
class ClaimMap
{
  public:
    ClaimMap() = default;
    ClaimMap(const ClaimMap &) = delete;
    ClaimMap &operator=(const ClaimMap &) = delete;

    struct Claim
    {
        bool claimed = false;
        std::shared_future<V> future;
        std::shared_ptr<std::promise<V>> promise; ///< when claimed
    };

    /**
     * Claim @p key: if absent, the caller must compute the value and
     * fulfil the returned promise (claimed == true, a miss); if present,
     * wait on the returned future (claimed == false, a hit).
     */
    Claim
    claim(const std::string &key)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = map_.find(key);
        if (it != map_.end()) {
            hits_.fetch_add(1);
            return Claim{false, it->second, nullptr};
        }
        misses_.fetch_add(1);
        auto promise = std::make_shared<std::promise<V>>();
        std::shared_future<V> future = promise->get_future().share();
        map_.emplace(key, future);
        return Claim{true, future, std::move(promise)};
    }

    /** Drop a claimed entry whose computation failed (un-poisons it). */
    void
    abandon(const std::string &key)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        map_.erase(key);
    }

    std::uint64_t hits() const { return hits_.load(); }
    std::uint64_t misses() const { return misses_.load(); }

    std::size_t
    size() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return map_.size();
    }

    /** Forget all entries (not the counters). */
    void
    clear()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        map_.clear();
    }

  private:
    mutable std::mutex mutex_;
    std::map<std::string, std::shared_future<V>> map_;
    std::atomic<std::uint64_t> hits_{0};
    std::atomic<std::uint64_t> misses_{0};
};

} // namespace p5

#endif // P5SIM_COMMON_CLAIM_MAP_HH
