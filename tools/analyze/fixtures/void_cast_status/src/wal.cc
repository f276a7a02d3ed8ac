// `(void)` is the escape hatch [[nodiscard]] + -Werror accepts; the
// analyzer does not — an explicitly shrugged-off error is still a
// dropped error, even when another declaration of the same name returns
// a plain value (Counter::Append below), which makes the name ambiguous
// to the builtin frontend. discarded-status must fire.
#include <string>

// Stand-in for common/status.h.
class Status {
 public:
  bool ok() const { return true; }
};

Status Append(const std::string& row);

// Same name, non-status return: the collision must not hide the cast.
class Counter {
 public:
  int Append(int delta) { return total_ += delta; }

 private:
  int total_ = 0;
};

Status Append(const std::string& row) {
  return row.empty() ? Status() : Status();
}

void CheckpointTail() {
  (void)Append("segment-roll");  // BAD: Status discarded via (void)
}
