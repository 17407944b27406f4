#ifndef CHEF_SHARD_FAULT_H_
#define CHEF_SHARD_FAULT_H_

/// \file
/// Deterministic fault injection for shard transports.
///
/// FaultInjectingTransport decorates any Transport with a script of
/// fault rules: at the Nth send or receive, drop the message, delay it,
/// truncate it, corrupt bytes inside it, or close the channel. The
/// mangling is seeded, so a failing chaos run replays bit-identically —
/// every coordinator failure path (EOF, send failure, malformed line,
/// silence) becomes a reproducible unit test instead of a
/// kill -9 in a shell loop. `chef_shard --chaos` builds on the same
/// decorator for the process-level smoke.
///
/// Operation ordinals are 1-based and count *attempts* on this
/// endpoint: the 3rd Send() call is `nth == 3` whether or not earlier
/// sends were themselves dropped. A rule fires at most once; rules with
/// the same (point, nth) all fire, in script order.

#include <cstdint>
#include <string>
#include <vector>

#include "shard/transport.h"

namespace chef::shard {

/// One scripted fault.
struct FaultRule {
    enum class Point {
        kSend,     ///< Applies to the Nth Send() on this endpoint.
        kReceive,  ///< Applies to the Nth delivered Receive() message.
    };
    enum class Action {
        kDrop,      ///< Swallow the message (send: report success;
                    ///< receive: discard and report timeout).
        kDelay,     ///< Sleep delay_seconds, then proceed normally.
        kTruncate,  ///< Pass through only a prefix of the message — the
                    ///< peer decodes a malformed JSON line.
        kCorrupt,   ///< Flip seeded bytes inside the message.
        kClose,     ///< Close the underlying transport instead.
    };
    Point point = Point::kSend;
    Action action = Action::kDrop;
    /// 1-based ordinal of the operation the rule fires at.
    uint64_t nth = 1;
    /// kDelay only.
    double delay_seconds = 0.0;
};

class FaultInjectingTransport : public Transport
{
  public:
    /// Decorates \p inner (not owned). \p seed drives the corrupt /
    /// truncate mangling deterministically.
    FaultInjectingTransport(Transport* inner, std::vector<FaultRule> rules,
                            uint64_t seed = 1);

    bool Send(const std::string& message) override;
    RecvStatus Receive(std::string* message, int timeout_ms) override;
    void Close() override;

    /// Operations attempted on this endpoint so far.
    uint64_t sends() const { return sends_; }
    uint64_t receives() const { return receives_; }
    /// Rules that have fired.
    uint64_t faults_fired() const { return faults_fired_; }

  private:
    /// Applies every matching unfired rule to \p message (which may be
    /// mangled in place). Returns false when a kDrop or kClose rule
    /// consumed the operation.
    bool Apply(FaultRule::Point point, uint64_t ordinal,
               std::string* message);

    uint64_t NextRandom();

    Transport* inner_;
    std::vector<FaultRule> rules_;
    std::vector<bool> fired_;
    uint64_t rng_state_;
    uint64_t sends_ = 0;
    uint64_t receives_ = 0;
    uint64_t faults_fired_ = 0;
};

}  // namespace chef::shard

#endif  // CHEF_SHARD_FAULT_H_
