// static-check-fixture: path=src/switchmod/fixture_bare_allow.cpp expect=raw-mutex:2
//
// An allow() with no reason does not suppress: the raw-mutex finding still
// fires, and the reasonless suppression itself is reported under the same
// rule name. Reasons are mandatory so every waiver documents its why.

#include <mutex>  // static_check: allow(raw-mutex)

namespace confnet::sw {

inline int answer() { return 42; }

}  // namespace confnet::sw
