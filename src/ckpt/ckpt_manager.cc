#include "ckpt/ckpt_manager.hh"

#include <exception>
#include <utility>

#include "common/log.hh"

namespace p5 {

CkptManager::Acquired
CkptManager::acquire(const std::string &warm_key, const WarmFn &warm)
{
    auto claim = claims_.claim(warm_key);
    Acquired out;
    if (!claim.claimed) {
        // A sibling holds the claim; wait for its image and fork.
        out.ckpt = claim.future.get();
        memForks_.fetch_add(1);
        return out;
    }

    // First claimant. The persistent area, when attached, stands in for
    // a warm-up that some earlier process already paid for. Otherwise
    // warm for real; warm() runs on the caller's own core, so the
    // creator measures on the very state it serialized.
    try {
        auto ckpt = std::make_shared<Checkpoint>();
        if (store_ && store_->load(warm_key, *ckpt)) {
            out.ckpt = std::move(ckpt);
        } else {
            *ckpt = warm();
            if (ckpt->warmKey != warm_key)
                fatal("checkpoint created under key '%s' but claimed as "
                      "'%s'", ckpt->warmKey.c_str(), warm_key.c_str());
            if (store_)
                store_->put(*ckpt);
            out.ckpt = std::move(ckpt);
            out.created = true;
        }
    } catch (...) {
        // Don't poison the key; hand the failure to waiting siblings.
        claims_.abandon(warm_key);
        claim.promise->set_exception(std::current_exception());
        throw;
    }
    claim.promise->set_value(out.ckpt);
    (out.created ? warms_ : storeForks_).fetch_add(1);
    return out;
}

} // namespace p5
