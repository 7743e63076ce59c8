#include "ledger.hpp"

namespace e2ebench {

void SampleLedger::settle(std::size_t i, Fate from, Fate to) {
  if (i >= fates_.size() || fates_[i] != from) {
    ++violations_;
    return;
  }
  fates_[i] = to;
}

void SampleLedger::close(std::uint64_t completion_drops_reported) {
  std::uint64_t missing = 0;
  for (std::uint8_t& fate : fates_) {
    if (fate != kAccepted) continue;
    ++missing;
    fate = missing <= completion_drops_reported ? kCompletionDropped
                                                : kUndelivered;
  }
  if (completion_drops_reported > missing) ++violations_;
}

LedgerTally SampleLedger::tally() const {
  LedgerTally t;
  t.attempted = fates_.size();
  t.violations = violations_;
  for (const std::uint8_t fate : fates_) {
    switch (fate) {
      case kDelivered: ++t.delivered; break;
      case kShed: ++t.shed; break;
      case kCompletionDropped: ++t.completion_dropped; break;
      case kUndelivered: ++t.undelivered; break;
      case kWrong: ++t.wrong; break;
      default: ++t.violations; break;  // still pending/accepted: not closed
    }
  }
  return t;
}

}  // namespace e2ebench
