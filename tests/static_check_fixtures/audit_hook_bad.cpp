// static-check-fixture: path=src/switchmod/fixture_audit.cpp expect=audit-hook:1
//
// A mutating method from the audit contract table (FabricState::try_add)
// whose body never invokes CONFNET_AUDIT_HOOK. The sibling remove() below
// does audit and must stay clean.

#include "util/audit.hpp"

namespace confnet::sw {

struct GroupRealization {
  unsigned id = 0;
};

class FabricState {
 public:
  bool try_add(GroupRealization group);
  void remove(unsigned id);
  bool fail_link(unsigned level, unsigned row);
  bool repair_link(unsigned level, unsigned row);
  bool try_replace(unsigned id, GroupRealization group);
  void replace(unsigned id, GroupRealization group);

 private:
  int admitted_ = 0;
};

bool FabricState::try_add(GroupRealization group) {
  admitted_ += static_cast<int>(group.id != 0);
  return true;  // mutates admitted state without auditing: flagged
}

void FabricState::remove(unsigned id) {
  admitted_ -= static_cast<int>(id != 0);
  CONFNET_AUDIT_HOOK(admitted_ >= 0);
}

bool FabricState::fail_link(unsigned, unsigned) {
  CONFNET_AUDIT_HOOK(true);
  return true;
}

bool FabricState::repair_link(unsigned, unsigned) {
  CONFNET_AUDIT_HOOK(true);
  return true;
}

// static_check: allow(audit-hook) delegates to replace(), which audits
bool FabricState::try_replace(unsigned id, GroupRealization group) {
  replace(id, group);
  return true;
}

void FabricState::replace(unsigned, GroupRealization) {
  CONFNET_AUDIT_HOOK(true);
}

}  // namespace confnet::sw
