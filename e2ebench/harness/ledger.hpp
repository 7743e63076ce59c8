// Per-sample accounting: every attempted sample ends in exactly one fate,
// and the run's failed count is derived from the fates, never estimated.
//
//   attempted = delivered + shed + completion_dropped + undelivered + wrong
//
// A wrong verdict is a failed check (it makes the run incorrect), not a
// slow sample.  Anything that would count a sample twice, or deliver one
// that was never accepted, is a ledger violation and also fails the run.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace e2ebench {

struct LedgerTally {
  std::uint64_t attempted = 0;
  std::uint64_t delivered = 0;           // verdict popped and correct
  std::uint64_t shed = 0;                // refused at a full ingestion ring
  std::uint64_t completion_dropped = 0;  // scored, lost at a full completion queue
  std::uint64_t undelivered = 0;         // accepted, no verdict by the drain deadline
  std::uint64_t wrong = 0;               // verdict popped and different from the reference
  std::uint64_t violations = 0;          // double counts, deliveries never accepted

  std::uint64_t failed() const {
    return shed + completion_dropped + undelivered + wrong;
  }
  double failed_ratio() const {
    return attempted == 0 ? 0.0
                          : static_cast<double>(failed()) /
                                static_cast<double>(attempted);
  }
  bool correct() const {
    return wrong == 0 && violations == 0 &&
           delivered + failed() == attempted;
  }
};

class SampleLedger {
 public:
  SampleLedger() = default;
  explicit SampleLedger(std::size_t attempted) : fates_(attempted, kPending) {}

  void shed(std::size_t i) { settle(i, kPending, kShed); }
  void accepted(std::size_t i) { settle(i, kPending, kAccepted); }
  /// A verdict for sample i was popped; `verdict_ok` compares it with the
  /// reference verdict.
  void delivered(std::size_t i, bool verdict_ok) {
    settle(i, kAccepted, verdict_ok ? kDelivered : kWrong);
  }
  /// A sample already delivered turned out wrong (verdicts checked after
  /// the run, e.g. against an in-order replay).
  void mark_wrong(std::size_t i) { settle(i, kDelivered, kWrong); }
  /// A check outside the per-sample fates failed (e.g. a verdict whose
  /// (host, seq) maps to no sample, or a sequence number out of order).
  void violation(std::uint64_t n) { violations_ += n; }

  /// End of the run: samples accepted but never popped are completion
  /// drops up to the server's reported count, and undelivered beyond it.
  /// A reported count above the missing samples is a violation.
  void close(std::uint64_t completion_drops_reported);

  LedgerTally tally() const;

 private:
  enum Fate : std::uint8_t {
    kPending,
    kAccepted,
    kShed,
    kDelivered,
    kCompletionDropped,
    kUndelivered,
    kWrong,
  };
  void settle(std::size_t i, Fate from, Fate to);

  std::vector<std::uint8_t> fates_;
  std::uint64_t violations_ = 0;
};

}  // namespace e2ebench
